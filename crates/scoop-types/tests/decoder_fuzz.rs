//! Arbitrary-bytes property tests for the wire and disk decoders.
//!
//! `ServeRequest::decode`, `ServeResponse::decode` and `DurableRecord::decode`
//! read bytes that come from outside the process (a socket, a segment file).
//! On any input each must return `Ok` or a typed `ScoopError` — never panic —
//! and every `Ok` must re-encode to exactly the bytes it was decoded from, so
//! a decoder can never accept two spellings of one value.

use proptest::prelude::*;
use scoop_types::{
    DurableRecord, ScoopError, ServeRequest, ServeResponse, DURABLE_RECORD_LEN, SERVE_REQUEST_LEN,
};

/// The serve codec rejects with `Serialization`, the record codec with
/// `Store`.
fn assert_typed(e: ScoopError) {
    assert!(
        matches!(e, ScoopError::Serialization(_) | ScoopError::Store(_)),
        "untyped rejection {e:?}"
    );
}

/// Overwrites `frame` so it often looks like a real response frame: `status`
/// at byte 8 and, for a rows frame, a body trimmed to whole records, a
/// matching row count and zeroed reserved bytes.
fn shaped_response(mut frame: Vec<u8>, status: u8) -> Vec<u8> {
    if frame.len() < 9 {
        return frame;
    }
    frame[8] = status;
    if status == 0 && frame.len() >= 13 {
        let rows = (frame.len() - 13) / DURABLE_RECORD_LEN;
        frame.truncate(13 + rows * DURABLE_RECORD_LEN);
        frame[9..13].copy_from_slice(&(rows as u32).to_le_bytes());
        for r in 0..rows {
            frame[13 + r * DURABLE_RECORD_LEN + 3] = 0;
        }
    }
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn serve_request_decode_is_total_and_canonical(
        raw in proptest::collection::vec(0u8..=255, SERVE_REQUEST_LEN..SERVE_REQUEST_LEN + 1),
    ) {
        let bytes: [u8; SERVE_REQUEST_LEN] = raw.as_slice().try_into().expect("32 bytes");
        match ServeRequest::decode(&bytes) {
            Ok(request) => {
                let mut again = [0u8; SERVE_REQUEST_LEN];
                request.encode_into(&mut again);
                prop_assert_eq!(again, bytes);
            }
            Err(e) => assert_typed(e),
        }
    }

    #[test]
    fn durable_record_decode_is_total_and_canonical(
        raw in proptest::collection::vec(0u8..=255, DURABLE_RECORD_LEN..DURABLE_RECORD_LEN + 1),
        zero_reserved in 0u8..2,
    ) {
        let mut bytes: [u8; DURABLE_RECORD_LEN] = raw.as_slice().try_into().expect("16 bytes");
        if zero_reserved == 1 {
            bytes[3] = 0;
        }
        match DurableRecord::decode(&bytes) {
            Ok(record) => {
                let mut again = [0u8; DURABLE_RECORD_LEN];
                record.encode_into(&mut again);
                prop_assert_eq!(again, bytes);
            }
            Err(e) => assert_typed(e),
        }
    }

    #[test]
    fn serve_response_decode_is_total_and_canonical(
        raw in proptest::collection::vec(0u8..=255, 0..120),
        shape in 0u8..4,
    ) {
        // Shapes 0 and 1 are the two known status codes, 2 an unknown one,
        // 3 the raw bytes untouched.
        let bytes = if shape == 3 { raw } else { shaped_response(raw, shape) };
        match ServeResponse::decode(&bytes) {
            Ok(response) => {
                let mut again = Vec::new();
                response.encode_into(&mut again);
                prop_assert_eq!(again, bytes);
            }
            Err(e) => assert_typed(e),
        }
    }
}

/// The shaped frames reach both `Ok` paths, so the re-encoding half of the
/// response property is not vacuous.
#[test]
fn shaped_frames_reach_both_ok_paths() {
    let raw: Vec<u8> = (0..(13 + 3 * DURABLE_RECORD_LEN) as u8).collect();
    let rows = ServeResponse::decode(&shaped_response(raw.clone(), 0));
    assert!(matches!(rows, Ok(ServeResponse::Rows(r)) if r.rows.len() == 3));
    let overloaded = ServeResponse::decode(&shaped_response(raw[..17].to_vec(), 1));
    assert!(matches!(overloaded, Ok(ServeResponse::Overloaded(_))));
}
