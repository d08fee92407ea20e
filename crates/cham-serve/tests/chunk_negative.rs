//! Wire-level negatives of the chunked upload: oversize chunks,
//! out-of-range indexes, undeclared uploads, checksum and body-hash
//! mismatches and premature commits must come back as *typed* errors
//! before the server commits a byte to its assembly.

use cham_he::hmvp::Matrix;
use cham_he::params::ChamParams;
use cham_serve::cache::content_hash;
use cham_serve::protocol::{
    self, ErrorCode, FrameKind, Hello, MatrixChunkStart, Response, MAX_CHUNK_BYTES,
};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ServeClient, ServeError};
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

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
    let server = start_server();
    let matrix = test_matrix(0x48);
    let body = protocol::matrix_to_bytes(&matrix);
    // Declare a content id the body will not hash to.
    let lying_id = content_hash(&body) ^ 0xFF;
    let chunk_bytes = 64usize;
    let start = MatrixChunkStart::new(lying_id, body.len(), chunk_bytes, 4, 32);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    for index in 0..start.chunk_count {
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
        server.cache().put_matrix(&body, &matrix).unwrap(),
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
