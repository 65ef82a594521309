//! Pipelined requests against `gea-server`: the client's batched call
//! keeps request order and frame boundaries, and the staging verbs fail
//! closed — a refused `xstage` turns the commit line that was already on
//! the wire behind it into an `ERR` that installs nothing.

mod common;

use std::io::{BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use gea_server::wire::{self, Reply};
use gea_server::{xcodec, GeaClient, ServerConfig};

fn spawn_server() -> common::Daemon {
    common::spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        lock_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
}

#[test]
fn batched_requests_answer_in_order_and_stay_framed() {
    let server = spawn_server();
    let mut client = GeaClient::connect(server.addr).expect("connect");

    // Multi-line replies, an ERR in the middle, and single-line replies
    // after it: one reply per request, in request order.
    let replies = client
        .request_batch(&[
            "open s demo 42",
            "help",
            "gap g missing1 missing2",
            "ping",
            "dataset E brain",
            "tissues",
        ])
        .expect("batch");
    assert_eq!(replies.len(), 6);
    assert!(replies[0].as_ref().is_ok_and(|p| p.contains("session s")));
    assert_eq!(replies[1], client.request("help").expect("help alone"));
    assert!(replies[1].as_ref().is_ok_and(|p| p.lines().count() > 5));
    assert_eq!(replies[2].as_ref().unwrap_err().0, "ENOTFOUND");
    assert_eq!(replies[3], Ok("pong".to_string()));
    assert!(replies[4].is_ok(), "{:?}", replies[4]);
    assert_eq!(
        replies[5],
        client.request("tissues").expect("tissues alone")
    );

    // A line that is not one line is refused before anything is written:
    // the server never sees the `ping` in front of it.
    let refused = client
        .request_batch(&["ping", "two\nlines"])
        .expect_err("embedded newline");
    assert_eq!(refused.kind(), ErrorKind::InvalidInput);
    let next = client.request("sessions").expect("still in step");
    assert!(
        next.is_ok_and(|p| p.contains("generation")),
        "a stray pong?"
    );

    drop(client);
    server.stop();
}

/// Write `lines` in one `write`, then read one reply per line.
fn pipelined(stream: &mut TcpStream, lines: &[String]) -> Vec<Reply> {
    let mut bytes = lines.join("\n").into_bytes();
    bytes.push(b'\n');
    stream.write_all(&bytes).expect("one write");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|_| {
            wire::read_reply(&mut reader)
                .expect("reply frame")
                .expect("server still there")
        })
        .collect()
}

/// `xreset`, one `xstage` per 48 KiB of hex, then `commit`.
fn staging_lines(hex: &str, poison: bool, commit: &str) -> Vec<String> {
    let mut lines = vec!["xreset".to_string()];
    for chunk in hex.as_bytes().chunks(48 * 1024) {
        lines.push(format!("xstage {}", std::str::from_utf8(chunk).unwrap()));
    }
    if poison {
        lines.push("xstage zz".to_string());
    }
    lines.push(commit.to_string());
    lines
}

/// `(fingerprint, hex body)` of `xsnapshot <session>`.
fn snapshot(stream: &mut TcpStream, session: &str) -> (String, String) {
    let reply = pipelined(stream, &[format!("xsnapshot {session}")]).remove(0);
    let payload = reply.expect("snapshot");
    let (header, hex) = payload.split_once('\n').expect("header line");
    let fingerprint = header.split_whitespace().nth(1).expect("fingerprint");
    (fingerprint.to_string(), hex.to_string())
}

#[test]
fn a_refused_chunk_poisons_staging_until_xreset() {
    let server = spawn_server();
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let ask = |stream: &mut TcpStream, line: &str| pipelined(stream, &[line.to_string()]).remove(0);

    for line in ["open s demo 42", "dataset E brain", "mine E a 50 3 6"] {
        ask(&mut stream, line).expect(line);
    }
    // The merged partials a router would stage for `groups a_1` over two
    // shards.
    let blobs: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            let part = ask(&mut stream, &format!("xpart {i} 2 :: groups a_1")).expect("xpart");
            xcodec::hex_decode(&part).expect("partial is hex")
        })
        .collect();
    let merged = xcodec::hex_encode(&xcodec::frame(&blobs));
    let lineage = ask(&mut stream, "lineage");
    let (fingerprint, _) = snapshot(&mut stream, "s");

    // xapply: good chunk, refused chunk, commit — all in one write.
    let commit = "xapply 2 :: groups a_1";
    let replies = pipelined(&mut stream, &staging_lines(&merged, true, commit));
    let n = replies.len();
    assert!(replies[..n - 2].iter().all(Result::is_ok), "{replies:?}");
    assert!(replies[n - 2].is_err(), "bad hex must be refused");
    let (code, msg) = replies[n - 1]
        .clone()
        .expect_err("commit on a poisoned buffer");
    assert_eq!(code, "EPARSE");
    assert!(msg.contains("poisoned"), "{msg}");
    // Staging stays closed until xreset, whatever arrives.
    assert!(ask(&mut stream, "xstage 00").is_err());
    assert!(ask(&mut stream, commit).is_err());
    assert_eq!(ask(&mut stream, "lineage"), lineage, "nothing installed");
    assert_eq!(
        snapshot(&mut stream, "s").0,
        fingerprint,
        "nothing installed"
    );

    // After xreset a clean transfer installs exactly what `groups` does.
    let replies = pipelined(&mut stream, &staging_lines(&merged, false, commit));
    let applied = replies.last().unwrap().clone().expect("clean xapply");
    for line in ["open t demo 42", "dataset E brain", "mine E a 50 3 6"] {
        ask(&mut stream, line).expect(line);
    }
    assert_eq!(ask(&mut stream, "groups a_1"), Ok(applied));
    assert_eq!(snapshot(&mut stream, "t").0, snapshot(&mut stream, "s").0);

    // xadopt: the same discipline on the rebalance plane.
    let (fingerprint, hex) = snapshot(&mut stream, "s");
    let commit = format!("xadopt copy {fingerprint}");
    let replies = pipelined(&mut stream, &staging_lines(&hex, true, &commit));
    assert!(replies.last().unwrap().is_err(), "{:?}", replies.last());
    let (code, _) = ask(&mut stream, "use copy").expect_err("nothing adopted");
    assert_eq!(code, "ENOSESSION");
    let replies = pipelined(&mut stream, &staging_lines(&hex, false, &commit));
    assert_eq!(
        replies.last().unwrap(),
        &Ok("adopted session copy".to_string())
    );
    assert_eq!(snapshot(&mut stream, "copy").0, fingerprint);

    drop(stream);
    server.stop();
}
