//! LEB128 varints and zigzag mapping — the innermost layer of every column
//! encoding.
//!
//! Unsigned values are written little-endian base-128, 7 bits per byte with
//! the high bit as a continuation flag (at most 10 bytes for a `u64`).
//! Signed deltas go through the zigzag map `v → (v << 1) ^ (v >> 63)` first
//! so small magnitudes of either sign stay short.

use mmcore::StoreError;

/// Append `v` as a LEB128 varint.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Bytes [`write_varint`] writes for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    1 + (63 - (v | 1).leading_zeros() as usize) / 7
}

/// Map a signed value onto the unsigned varint domain.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor over a decoded block payload.
///
/// All reads return [`StoreError::Truncated`] instead of panicking when the
/// payload runs out — a corrupt length field can never index out of range.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading at the beginning of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, StoreError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(StoreError::Truncated { expected: "byte" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` bytes as a slice.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated {
                expected: "byte run",
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a LEB128 varint.
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64, StoreError> {
        // One byte is the common case: small deltas and dictionary ids.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.read_varint_long()
    }

    /// The general path of [`read_varint`](Self::read_varint).
    fn read_varint_long(&mut self) -> Result<u64, StoreError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self
                .read_u8()
                .map_err(|_| StoreError::Truncated { expected: "varint" })?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(StoreError::Schema("varint overflows u64".to_string()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_the_u64_range() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let before = buf.len();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() - before, "{v}");
        }
        let mut c = Cursor::new(&buf);
        for &v in &values {
            assert_eq!(c.read_varint().unwrap(), v);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_short() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        let mut buf = Vec::new();
        write_varint(&mut buf, zigzag(-3));
        assert_eq!(buf.len(), 1, "-3 must encode in one byte");
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut c = Cursor::new(&[0x80, 0x80]); // unterminated varint
        assert!(matches!(c.read_varint(), Err(StoreError::Truncated { .. })));
        let mut c = Cursor::new(&[1, 2]);
        assert!(matches!(c.read_bytes(3), Err(StoreError::Truncated { .. })));
        assert_eq!(c.read_bytes(2).unwrap(), &[1, 2]);
        assert!(matches!(c.read_u8(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn overlong_varint_is_a_schema_error() {
        // 11 continuation bytes: more than any u64 can need.
        let bytes = [0xff; 11];
        let mut c = Cursor::new(&bytes);
        assert!(matches!(c.read_varint(), Err(StoreError::Schema(_))));
    }
}
