//! A blocking client for the GQL wire protocol, used by the `gea-client`
//! binary, `gea-router`'s backend connections and the integration tests.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{self, Reply};

/// Whether a reply is the server's `EEVICTED` error: the session this
/// connection was attached to has been evicted (idle timeout or memory
/// budget) and must be re-`open`ed before further commands. Unlike
/// `ENOSESSION`, the name was valid — the state is simply gone, so a
/// client that can rebuild it (e.g. re-run its script against a fresh
/// `open`) may treat this as retryable.
pub fn reply_evicted(reply: &Reply) -> bool {
    matches!(reply, Err((code, _)) if code == "EEVICTED")
}

/// One connection to a gea-server.
pub struct GeaClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn single_line(line: &str) -> io::Result<()> {
    if line.contains(['\n', '\r']) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "request must be a single line",
        ));
    }
    Ok(())
}

impl GeaClient {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<GeaClient> {
        GeaClient::from_stream(TcpStream::connect(addr)?)
    }

    /// Speak the protocol over an already-connected stream — for callers
    /// that need their own connect policy (a deadline, say).
    pub fn from_stream(stream: TcpStream) -> io::Result<GeaClient> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(GeaClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read its reply frame. The server answering
    /// `ERR` is the `Err` side of the returned [`Reply`]; transport
    /// failures (including the server closing the connection before
    /// replying) are the outer `io::Error`.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.send_batch(&[line])?;
        self.recv()
    }

    /// [`GeaClient::request`], flattening a server `ERR` into an
    /// `io::Error` — convenient when any failure should abort (scripts).
    pub fn expect_ok(&mut self, line: &str) -> io::Result<String> {
        self.request(line)?
            .map_err(|(code, message)| io::Error::other(format!("{code} {message}")))
    }

    /// Write every line in one `write`, reading nothing: the server answers
    /// them in order, one frame each, and [`GeaClient::recv`] collects the
    /// frames. A line with an embedded newline is `InvalidInput` before any
    /// byte is written. The caller bounds the batch: replies left unread
    /// pile up in the socket buffers, and a server blocked writing one
    /// stops reading requests.
    pub fn send_batch<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(lines.iter().map(|l| l.as_ref().len() + 1).sum());
        for line in lines {
            single_line(line.as_ref())?;
            buf.extend_from_slice(line.as_ref().as_bytes());
            buf.push(b'\n');
        }
        self.writer.write_all(&buf)?;
        self.writer.flush()
    }

    /// Read the next reply frame of a batch sent with
    /// [`GeaClient::send_batch`].
    pub fn recv(&mut self) -> io::Result<Reply> {
        wire::read_reply(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// The batched call: `lines.len()` requests in one write, then as many
    /// reply frames, in request order. An `ERR` reply is an element of the
    /// result, not a failure of the batch.
    pub fn request_batch<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<Reply>> {
        self.send_batch(lines)?;
        lines.iter().map(|_| self.recv()).collect()
    }
}
