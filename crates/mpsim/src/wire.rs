//! Explicit little-endian (de)serialization for wire messages.
//!
//! The in-process transports move typed values between threads, so they
//! never serialize anything. A socket transport must: this trait is the
//! contract a message type signs so a byte-stream backend (the TCP
//! transport in `pa-net`, eventually a real MPI binding) can carry it.
//!
//! The encoding is deliberately boring — fixed little-endian fields, a
//! one-byte tag for enums, no implicit padding — so the format is
//! identical on every host and a frame can be decoded without knowing
//! the sender's architecture. `decode` must consume exactly the bytes
//! `encode` produced and reject anything else with `None` (a corrupt or
//! truncated frame must never silently decode to a different message).

/// A message that can cross a byte-stream transport.
///
/// Laws, checked by the round-trip tests of every implementation:
///
/// * **Round trip:** `decode(encode(m)) == Some(m)` with the cursor
///   advanced past exactly the encoded bytes.
/// * **Self-delimiting:** `decode` never reads past the bytes `encode`
///   wrote for one value (messages are concatenated back-to-back inside
///   a data frame).
/// * **Total rejection:** truncated input yields `None`, not a panic.
pub trait Wire: Sized {
    /// Append this value's little-endian encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `input`, advancing the slice
    /// past the consumed bytes. `None` when the bytes are truncated or
    /// malformed.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Split `n` bytes off the front of `input`, or `None` if short.
#[inline]
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

/// Decode a little-endian `u8`.
#[inline]
pub fn get_u8(input: &mut &[u8]) -> Option<u8> {
    take(input, 1).map(|b| b[0])
}

/// Decode a little-endian `u32`.
#[inline]
pub fn get_u32(input: &mut &[u8]) -> Option<u32> {
    take(input, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

/// Decode a little-endian `u64`.
#[inline]
pub fn get_u64(input: &mut &[u8]) -> Option<u64> {
    take(input, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        get_u64(input)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        get_u32(input)
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        get_u8(input)
    }
}

impl Wire for (u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((get_u64(input)?, get_u64(input)?))
    }
}

/// Fixed-length words back to back — a counter set's `to_words` layout
/// (see [`crate::counters!`]).
impl<const N: usize> Wire for [u64; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for w in self {
            w.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut words = [0; N];
        for w in &mut words {
            *w = get_u64(input)?;
        }
        Some(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut cursor = buf.as_slice();
        assert_eq!(T::decode(&mut cursor), Some(v));
        assert!(cursor.is_empty(), "decode left bytes behind");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip((7u64, u64::MAX));
        round_trip([3u64, 0, u64::MAX]);
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = Vec::new();
        0x0102_0304u32.encode(&mut buf);
        assert_eq!(buf, vec![0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut short: &[u8] = &[1, 2, 3];
        assert_eq!(u32::decode(&mut short), None);
        let mut empty: &[u8] = &[];
        assert_eq!(u8::decode(&mut empty), None);
    }

    #[test]
    fn values_concatenate_back_to_back() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            i.encode(&mut buf);
        }
        let mut cursor = buf.as_slice();
        for i in 0..10u64 {
            assert_eq!(u64::decode(&mut cursor), Some(i));
        }
        assert!(cursor.is_empty());
    }
}
