//! Property tests for the HTTP wire codec.

use std::panic::catch_unwind;

use nodefz_check::{forall, mutants, payload_classes, Gen};

use nodefz_http::{
    decode_request, decode_response, encode_request, encode_response, Method, Response,
};

fn gen_method(g: &mut Gen) -> Method {
    *g.pick(&[Method::Get, Method::Post, Method::Put, Method::Delete])
}

/// One to four segments of `/[a-z0-9:_-]{1,8}`.
fn gen_path(g: &mut Gen) -> String {
    let alphabet: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain([':', '_', '-'])
        .collect();
    let segments = g.range_usize(1, 5);
    let mut path = String::new();
    for _ in 0..segments {
        path.push('/');
        for _ in 0..g.range_usize(1, 9) {
            path.push(*g.pick(&alphabet));
        }
    }
    path
}

#[test]
fn request_roundtrip() {
    forall("request_roundtrip", 96, |g| {
        let method = gen_method(g);
        let path = gen_path(g);
        let body = g.bytes(0, 64);
        let wire = encode_request(method, &path, &body);
        let (m, p, b) = decode_request(&wire).expect("self-encoded requests decode");
        assert_eq!(m, method);
        assert_eq!(p, path);
        assert_eq!(b, body);
    });
}

#[test]
fn response_roundtrip() {
    forall("response_roundtrip", 96, |g| {
        let status = g.range(100, 600) as u16;
        let body = g.bytes(0, 64);
        let r = Response { status, body };
        let decoded = decode_response(&encode_response(&r)).expect("self-encoded responses decode");
        assert_eq!(decoded, r);
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    forall("decoder_never_panics_on_garbage", 128, |g| {
        let bytes = g.bytes(0, 128);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    });
}

#[test]
fn truncated_requests_decode_to_a_body_prefix() {
    forall("truncated_requests_decode_to_a_body_prefix", 32, |g| {
        let method = gen_method(g);
        let path = gen_path(g);
        let body = g.bytes(1, 64);
        let wire = encode_request(method, &path, &body);
        let newline = wire.iter().position(|&b| b == b'\n').expect("head ends");
        for cut in 0..=wire.len() {
            let decoded = decode_request(&wire[..cut]);
            if cut <= newline {
                assert_eq!(decoded, None, "cut {cut} of {wire:?}");
                continue;
            }
            let (m, p, b) = decoded.unwrap_or_else(|| panic!("cut {cut} of {wire:?}"));
            assert_eq!(m, method);
            assert_eq!(p, path);
            assert_eq!(b, &body[..cut - newline - 1], "cut {cut}");
        }
    });
}

/// Every hostile payload class spliced into every token of a valid
/// request and a valid response. No input may panic a decoder. A request
/// that decodes must re-encode to exactly its input: the method matched
/// exactly and the path and body were kept verbatim, so a decoded request
/// is never larger than the message it came from. Responses need only not
/// panic, since `"+200"` and `"0200"` both parse as 200.
#[test]
fn hostile_messages_never_panic_and_decoded_requests_reencode_exactly() {
    let request = encode_request(Method::Post, "/jobs/7", b"key=value");
    let response = encode_response(&Response::ok("done"));
    let (request, response) = (
        String::from_utf8(request).expect("ascii"),
        String::from_utf8(response).expect("ascii"),
    );
    let mut decoded = 0;
    for (class, payloads) in payload_classes() {
        for payload in &payloads {
            for m in mutants(&request, payload) {
                let wire = m.text.as_bytes();
                let result = catch_unwind(|| decode_request(wire))
                    .unwrap_or_else(|_| panic!("{class}: decode_request panicked on {:?}", m.text));
                if let Some((method, path, body)) = result {
                    decoded += 1;
                    assert_eq!(
                        encode_request(method, &path, &body),
                        wire,
                        "{class}: {:?}",
                        m.text
                    );
                }
            }
            for m in mutants(&response, payload) {
                let wire = m.text.as_bytes();
                catch_unwind(|| decode_response(wire)).unwrap_or_else(|_| {
                    panic!("{class}: decode_response panicked on {:?}", m.text)
                });
            }
        }
    }
    assert!(
        decoded > 0,
        "no hostile request decoded, so none re-encoded"
    );
}
