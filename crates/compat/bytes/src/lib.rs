//! Offline drop-in shim for the subset of the `bytes` crate API this
//! workspace uses.
//!
//! The build environment cannot reach a cargo registry, so the wire
//! codec in `devices::report` compiles against this minimal local
//! implementation instead: [`Bytes`] (cheaply cloneable shared buffer
//! with a read cursor), [`BytesMut`] (growable builder), and the
//! big-endian [`Buf`]/[`BufMut`] accessor traits.
//!
//! ```
//! use bytes::{Buf, BufMut, BytesMut};
//!
//! let mut buf = BytesMut::with_capacity(8);
//! buf.put_u16(0x4C4D);
//! buf.put_u32(7);
//! let mut frozen = buf.freeze();
//! assert_eq!(frozen.len(), 6);
//! assert_eq!(frozen.get_u16(), 0x4C4D);
//! assert_eq!(frozen.get_u32(), 7);
//! assert!(frozen.is_empty());
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable byte buffer with a read
/// cursor (advanced by the [`Buf`] accessors).
#[derive(Clone, Debug, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remaining length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a view of `range` (relative to the current position) as
    /// a new `Bytes` sharing the same backing storage.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && self.start + range.end <= self.end,
            "slice out of bounds: {range:?} of {}",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "advance past end of buffer");
        let out = &self.data[self.start..self.start + n];
        self.start += n;
        out
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        Self {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        v.to_vec().into()
    }
}

/// A growable byte buffer for building messages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends a byte slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        Self { data: v.to_vec() }
    }
}

/// Big-endian read accessors that advance a cursor.
pub trait Buf {
    /// Reads one `u8` and advances.
    fn get_u8(&mut self) -> u8;
    /// Reads a big-endian `u16` and advances.
    fn get_u16(&mut self) -> u16;
    /// Reads a big-endian `u32` and advances.
    fn get_u32(&mut self) -> u32;
    /// Reads a big-endian `u64` and advances.
    fn get_u64(&mut self) -> u64;
    /// Reads a big-endian `i16` and advances.
    fn get_i16(&mut self) -> i16 {
        self.get_u16() as i16
    }
}

impl Buf for Bytes {
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Big-endian write accessors.
pub trait BufMut {
    /// Appends one `u8`.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a big-endian `i16`.
    fn put_i16(&mut self, v: i16) {
        self.put_u16(v as u16);
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut b = BytesMut::with_capacity(17);
        b.put_u8(0xAB);
        b.put_u16(0x1234);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(0x0102_0304_0506_0708);
        b.put_i16(-2);
        let mut f = b.freeze();
        assert_eq!(f.len(), 17);
        assert_eq!(f.get_u8(), 0xAB);
        assert_eq!(f.get_u16(), 0x1234);
        assert_eq!(f.get_u32(), 0xDEAD_BEEF);
        assert_eq!(f.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(f.get_i16(), -2);
        assert!(f.is_empty());
    }

    #[test]
    fn slice_is_independent_of_cursor() {
        let mut f = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = f.slice(0..3);
        let _ = f.get_u16();
        assert_eq!(&head[..], &[1, 2, 3]);
        assert_eq!(&f[..], &[3, 4, 5]);
    }

    #[test]
    fn bytes_mut_is_indexable() {
        let mut b = BytesMut::from(&[9u8, 8, 7][..]);
        b[1] ^= 0xFF;
        assert_eq!(&b[..], &[9, 0xF7, 7]);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn reading_past_end_panics() {
        let mut f = Bytes::from(vec![1]);
        let _ = f.get_u16();
    }
}
