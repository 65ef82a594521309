//! Request-line reassembly for the connection loop ([`crate::front`]).
//!
//! The loop reads with a poll timeout (so an idle connection notices
//! shutdown) and therefore cannot use `BufReader::read_line`, which may
//! lose a partial line on a timed-out read. [`LineBuf`] keeps the bytes
//! received so far and remembers how far they have been searched, so a
//! long line that arrives in many reads is scanned once, not once per
//! read.

/// Bytes received on a connection and not yet consumed as request lines.
#[derive(Default)]
pub struct LineBuf {
    pending: Vec<u8>,
    /// `pending[..scanned]` is known to hold no newline.
    scanned: usize,
}

impl LineBuf {
    /// Append bytes just read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet returned as a line.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Remove and return the first complete line, newline included
    /// (invalid UTF-8 is replaced, as the parsers expect text).
    pub fn take_line(&mut self) -> Option<String> {
        match self.pending[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(pos) => {
                let raw: Vec<u8> = self.pending.drain(..=self.scanned + pos).collect();
                self.scanned = 0;
                Some(
                    String::from_utf8(raw)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
                )
            }
            None => {
                self.scanned = self.pending.len();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_come_out_whole_however_the_bytes_arrive() {
        let text = b"ping\nxstage 00ff\n\nlast without newline";
        for step in 1..=text.len() {
            let mut buf = LineBuf::default();
            let mut lines = Vec::new();
            for piece in text.chunks(step) {
                buf.extend(piece);
                while let Some(line) = buf.take_line() {
                    lines.push(line);
                }
            }
            assert_eq!(lines, ["ping\n", "xstage 00ff\n", "\n"], "step {step}");
            assert_eq!(buf.len(), "last without newline".len());
        }
    }

    #[test]
    fn the_searched_prefix_is_not_searched_again() {
        let mut buf = LineBuf::default();
        buf.extend(b"abc");
        assert_eq!(buf.take_line(), None);
        assert_eq!(buf.scanned, 3);
        buf.extend(b"def\nrest");
        assert_eq!(buf.take_line().as_deref(), Some("abcdef\n"));
        assert_eq!(buf.scanned, 0);
        assert_eq!(buf.take_line(), None);
        assert_eq!(buf.scanned, 4);
        assert!(!buf.is_empty());
    }
}
