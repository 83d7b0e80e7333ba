//! Wire framing: each message is a 4-byte little-endian length prefix
//! followed by that many bytes of UTF-8 JSON (one object per frame).
//!
//! The frame layer is symmetric — client and server use the same
//! [`read_frame`]/[`write_frame`] pair over any `Read`/`Write` stream.

use crate::json::Json;
use std::io::{self, Read, Write};

/// Upper bound on a single frame; a peer announcing more is corrupt (or
/// hostile) and the connection is dropped rather than the allocation
/// attempted.
pub const MAX_FRAME: u32 = 64 << 20;

/// Build one frame: the length prefix, then whatever `body` writes.
///
/// The body is written straight into the buffer the socket is handed.
/// The four bytes kept free for the prefix start out as NULs — valid
/// UTF-8, so the buffer can be a `String` while the JSON goes in — and
/// take the length once it is known.
pub(crate) fn frame(body: impl FnOnce(&mut String)) -> io::Result<Vec<u8>> {
    let mut text = String::from("\0\0\0\0");
    body(&mut text);
    let len = u32::try_from(text.len() - 4)
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"))?;
    let mut frame = text.into_bytes();
    frame[..4].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// Write one JSON message as a length-prefixed frame.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    write_bytes(w, &frame(|out| msg.write(out))?)
}

/// Send a built frame. One write per frame: a split header/body write
/// pattern interacts with Nagle + delayed ACK and costs ~40ms per round
/// trip.
pub(crate) fn write_bytes(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let msg = Json::obj([("op", Json::Str("hello".into())), ("n", Json::Int(3))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Json::Null));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn oversized_body_is_refused_before_it_is_sent() {
        let body = "a".repeat(MAX_FRAME as usize - 1);
        // Two quotes bring the string to one byte past the limit.
        let e = frame(|out| Json::Str(body).write(out)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Int(1)).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
