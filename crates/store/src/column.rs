//! Column codecs: delta + zigzag + varint streams for integers, XOR-delta
//! bit-transmuted streams for `f64`, and a length-prefixed string
//! dictionary.
//!
//! A column is a plain byte string — framing, checksums and headers live a
//! layer up in [`crate::block`]. Encoders hold the running predictor state
//! (previous value), so values must be read back in write order; that is
//! exactly the row order of the owning block.

use crate::varint::{unzigzag, write_varint, zigzag, Cursor};
use mmcore::StoreError;
use std::collections::BTreeMap;

/// Encoder for an unsigned integer column (`u64` and anything narrower).
///
/// Each value is stored as the zigzag varint of its wrapping difference from
/// the previous value, so sorted or slowly-varying columns (timestamps,
/// cell ids, rounds) collapse to one or two bytes per row. The bytes go
/// into a buffer the caller owns, so a writer reuses one per column from
/// group to group.
pub struct UIntEncoder<'a> {
    prev: u64,
    buf: &'a mut Vec<u8>,
    len: u64,
}

impl<'a> UIntEncoder<'a> {
    /// An encoder writing into `buf`, which it clears (predictor starts
    /// at 0).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        UIntEncoder {
            prev: 0,
            buf,
            len: 0,
        }
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: u64) {
        let delta = v.wrapping_sub(self.prev) as i64;
        write_varint(self.buf, zigzag(delta));
        self.prev = v;
        self.len += 1;
    }

    /// Number of values pushed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no value has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Streaming decoder for a [`UIntEncoder`] column.
pub struct UIntDecoder<'a> {
    cursor: Cursor<'a>,
    prev: u64,
}

impl<'a> UIntDecoder<'a> {
    /// Decode from the column's byte string.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        UIntDecoder {
            cursor: Cursor::new(bytes),
            prev: 0,
        }
    }

    /// The next value in write order.
    #[inline]
    pub fn read(&mut self) -> Result<u64, StoreError> {
        let delta = unzigzag(self.cursor.read_varint()?);
        self.prev = self.prev.wrapping_add(delta as u64);
        Ok(self.prev)
    }

    /// The next value, checked to fit in `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, StoreError> {
        u32::try_from(self.read()?)
            .map_err(|_| StoreError::Schema("u32 column value out of range".to_string()))
    }

    /// The next value, checked to fit in `u8`.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, StoreError> {
        u8::try_from(self.read()?)
            .map_err(|_| StoreError::Schema("u8 column value out of range".to_string()))
    }

    /// Whether the column is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.cursor.is_empty()
    }
}

/// Encoder for an `f64` column.
///
/// Values are transmuted to their IEEE-754 bit patterns and stored as the
/// varint of the XOR with the previous pattern — repeated and
/// nearly-identical values (quantized dB grids, flat coordinates) share
/// their high bits and encode short. The transmute is exact: every bit
/// pattern round-trips, including negative zero, subnormals, infinities and
/// NaN payloads. Like [`UIntEncoder`], it writes into the caller's buffer.
pub struct F64Encoder<'a> {
    prev_bits: u64,
    buf: &'a mut Vec<u8>,
    len: u64,
}

impl<'a> F64Encoder<'a> {
    /// An encoder writing into `buf`, which it clears (predictor starts
    /// at +0.0).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        F64Encoder {
            prev_bits: 0,
            buf,
            len: 0,
        }
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        let bits = v.to_bits();
        write_varint(self.buf, bits ^ self.prev_bits);
        self.prev_bits = bits;
        self.len += 1;
    }

    /// Number of values pushed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no value has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Streaming decoder for an [`F64Encoder`] column.
pub struct F64Decoder<'a> {
    cursor: Cursor<'a>,
    prev_bits: u64,
}

impl<'a> F64Decoder<'a> {
    /// Decode from the column's byte string.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        F64Decoder {
            cursor: Cursor::new(bytes),
            prev_bits: 0,
        }
    }

    /// The next value in write order.
    #[inline]
    pub fn read(&mut self) -> Result<f64, StoreError> {
        self.prev_bits ^= self.cursor.read_varint()?;
        Ok(f64::from_bits(self.prev_bits))
    }

    /// Whether the column is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.cursor.is_empty()
    }
}

/// Slots of [`DictBuilder`]'s static-string memo. Static strings sit packed
/// in the binary's read-only data, so the low address bits alone spread a
/// vocabulary across the slots.
const MEMO_SLOTS: usize = 1024;

/// An order-preserving string dictionary: strings are assigned dense ids in
/// first-seen order, columns store the ids, and the table serializes as
/// `count` followed by length-prefixed UTF-8 entries.
#[derive(Default)]
pub struct DictBuilder {
    entries: Vec<String>,
    /// Each entry's id, by content. Ids still come from `entries`' order.
    ids: BTreeMap<String, u64>,
    /// Direct-mapped memo in front of `ids` for static strings: the
    /// `(address, length, id)` of a recently interned one per slot. A
    /// static string's address and length pin its content, so a hit is the
    /// content lookup's answer; one string may sit at many addresses, and
    /// each of them is simply its own memo key.
    memo: Vec<(usize, usize, u64)>,
}

impl DictBuilder {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id for `s`, inserting it on first sight.
    ///
    /// The lookup goes through an ordered index of the entries rather than
    /// a linear probe of the table.
    pub fn intern(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.entries.len() as u64;
        self.entries.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The id for a static string: the same id [`intern`](Self::intern)
    /// gives its content, found by address when the memo holds it.
    ///
    /// Ingest interns three strings per row (carrier, parameter, city),
    /// nearly always the same few hundred literals, so most rows skip the
    /// string comparisons of the content index.
    #[inline]
    pub fn intern_static(&mut self, s: &'static str) -> u64 {
        let addr = s.as_ptr().addr();
        let at = addr % MEMO_SLOTS;
        if let Some(&(a, len, id)) = self.memo.get(at) {
            if a == addr && len == s.len() {
                return id;
            }
        }
        let id = self.intern(s);
        if self.memo.is_empty() {
            self.memo = vec![(0, 0, 0); MEMO_SLOTS];
        }
        if let Some(slot) = self.memo.get_mut(at) {
            *slot = (addr, s.len(), id);
        }
        id
    }

    /// The id [`intern_static`](Self::intern_static) gave `s`, without
    /// interning: the lookup of a dictionary that is frozen once its block
    /// is written, shared by every thread that encodes against it. A
    /// string the dictionary lacks is a `Schema` error, so no row group
    /// can reference an id its file's dictionary block does not hold.
    #[inline]
    pub fn lookup_static(&self, s: &'static str) -> Result<u64, StoreError> {
        let addr = s.as_ptr().addr();
        if let Some(&(a, len, id)) = self.memo.get(addr % MEMO_SLOTS) {
            if a == addr && len == s.len() {
                return Ok(id);
            }
        }
        self.ids.get(s).copied().ok_or_else(|| {
            StoreError::Schema(format!("string {s:?} is not in the dictionary block"))
        })
    }

    /// Serialize the table.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, self.entries.len() as u64);
        for e in &self.entries {
            write_varint(&mut buf, e.len() as u64);
            buf.extend_from_slice(e.as_bytes());
        }
        buf
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A decoded string dictionary: id → string lookups for a reader.
pub struct Dict {
    entries: Vec<String>,
}

impl Dict {
    /// Parse a serialized [`DictBuilder`] table.
    pub fn decode(bytes: &[u8]) -> Result<Dict, StoreError> {
        let mut c = Cursor::new(bytes);
        let count = c.read_varint()?;
        if count > bytes.len() as u64 {
            // Each entry needs at least its length byte; a count beyond the
            // payload size can only come from corruption.
            return Err(StoreError::Schema(format!(
                "dictionary declares {count} entries in a {}-byte table",
                bytes.len()
            )));
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let len = c.read_varint()?;
            let raw = c.read_bytes(len as usize)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| StoreError::Schema("dictionary entry is not UTF-8".to_string()))?;
            entries.push(s.to_string());
        }
        if !c.is_empty() {
            return Err(StoreError::Schema(
                "trailing bytes after dictionary table".to_string(),
            ));
        }
        Ok(Dict { entries })
    }

    /// Look an id up.
    #[inline]
    pub fn get(&self, id: u64) -> Result<&str, StoreError> {
        self.entries
            .get(usize::try_from(id).unwrap_or(usize::MAX))
            .map(String::as_str)
            .ok_or_else(|| {
                StoreError::Schema(format!(
                    "dictionary id {id} out of range (table has {} entries)",
                    self.entries.len()
                ))
            })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_column_round_trips_mixed_values() {
        let values = [5u64, 5, 6, 1_000_000, 0, u64::MAX, 42];
        let mut bytes = Vec::new();
        let mut enc = UIntEncoder::new(&mut bytes);
        for &v in &values {
            enc.push(v);
        }
        assert_eq!(enc.len(), values.len() as u64);
        let mut dec = UIntDecoder::new(&bytes);
        for &v in &values {
            assert_eq!(dec.read().unwrap(), v);
        }
        assert!(dec.is_empty());
    }

    #[test]
    fn sorted_uint_columns_encode_one_byte_per_row() {
        let mut bytes = Vec::new();
        let mut enc = UIntEncoder::new(&mut bytes);
        for t in (0..1000u64).map(|i| 10_000 + i * 13) {
            enc.push(t);
        }
        // First delta is large; the rest are the constant 13 → 1 byte each.
        assert!(bytes.len() <= 1002, "{} bytes for 1000 rows", bytes.len());
    }

    #[test]
    fn f64_column_is_bit_exact_for_every_class_of_value() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -123.456,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -106.5,
            -106.5,
        ];
        let mut bytes = Vec::new();
        let mut enc = F64Encoder::new(&mut bytes);
        for &v in &values {
            enc.push(v);
        }
        let mut dec = F64Decoder::new(&bytes);
        for &v in &values {
            let got = dec.read().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v}");
        }
        assert!(dec.is_empty());
    }

    #[test]
    fn repeated_f64_values_encode_one_byte() {
        let mut bytes = Vec::new();
        let mut enc = F64Encoder::new(&mut bytes);
        for _ in 0..100 {
            enc.push(-106.5);
        }
        // XOR-delta of a repeat is 0 → one varint byte per row (plus the
        // first full-width value).
        assert!(bytes.len() <= 109, "{} bytes", bytes.len());
    }

    #[test]
    fn narrow_reads_reject_wide_values() {
        let mut bytes = Vec::new();
        let mut enc = UIntEncoder::new(&mut bytes);
        enc.push(300);
        let mut dec = UIntDecoder::new(&bytes);
        assert!(matches!(dec.read_u8(), Err(StoreError::Schema(_))));
        let mut bytes = Vec::new();
        let mut enc = UIntEncoder::new(&mut bytes);
        enc.push(u64::from(u32::MAX) + 1);
        let mut dec = UIntDecoder::new(&bytes);
        assert!(matches!(dec.read_u32(), Err(StoreError::Schema(_))));
    }

    #[test]
    fn dict_ids_follow_first_sight_and_encode_in_that_order() {
        let seq = [
            "q-Hyst",
            "A",
            "q-Hyst",
            "C1",
            "A",
            "a3-Offset",
            "C1",
            "",
            "A",
            "",
        ];
        let mut b = DictBuilder::new();
        let ids: Vec<u64> = seq.iter().map(|s| b.intern(s)).collect();
        assert_eq!(ids, [0, 1, 0, 2, 1, 3, 2, 4, 1, 4]);
        assert_eq!(b.len(), 5);
        // The table layout: count, then each entry length-prefixed, in id
        // order.
        let mut want = vec![5u8];
        for e in ["q-Hyst", "A", "C1", "a3-Offset", ""] {
            want.push(e.len() as u8);
            want.extend_from_slice(e.as_bytes());
        }
        assert_eq!(b.encode(), want);
    }

    #[test]
    fn dict_round_trips_and_validates() {
        let mut b = DictBuilder::new();
        assert_eq!(b.intern("A"), 0);
        assert_eq!(b.intern("T"), 1);
        assert_eq!(b.intern("A"), 0, "re-intern returns the same id");
        assert_eq!(b.intern("q-Hyst"), 2);
        let bytes = b.encode();
        let d = Dict::decode(&bytes).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0).unwrap(), "A");
        assert_eq!(d.get(2).unwrap(), "q-Hyst");
        assert!(matches!(d.get(3), Err(StoreError::Schema(_))));
        // Truncated table.
        assert!(matches!(
            Dict::decode(&bytes[..bytes.len() - 1]),
            Err(StoreError::Truncated { .. })
        ));
        // Non-UTF-8 entry.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 1);
        bad.push(0xff);
        assert!(matches!(Dict::decode(&bad), Err(StoreError::Schema(_))));
    }

    #[test]
    fn static_interning_follows_content_never_address() {
        // Literals plus forty names leaked sixty times each: every content
        // sits at many addresses, more than the memo has slots, so slots
        // collide and are overwritten.
        let mut copies: Vec<&'static str> = vec!["q-Hyst", "A", "", "C1"];
        for _ in 0..60 {
            for i in 0..40 {
                copies.push(Box::leak(format!("param-{i}").into_boxed_str()));
            }
        }
        assert!(copies.len() > MEMO_SLOTS);
        assert_ne!(
            copies[4].as_ptr(),
            copies[44].as_ptr(),
            "distinct addresses"
        );
        assert_eq!(copies[4], copies[44], "equal content");
        let mut by_address = DictBuilder::new();
        let mut by_content = DictBuilder::new();
        // The reference: ids by content, in first-seen order.
        let mut reference: BTreeMap<&str, u64> = BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = copies[(x % copies.len() as u64) as usize];
            let next = reference.len() as u64;
            let want = *reference.entry(s).or_insert(next);
            assert_eq!(by_address.intern_static(s), want, "{s:?} at {:p}", s);
            assert_eq!(by_content.intern(s), want, "{s:?}");
        }
        assert_eq!(by_address.len(), 44);
        assert_eq!(by_address.encode(), by_content.encode());
        // Frozen, the dictionary answers every address the same way, and
        // refuses a string it never interned.
        for s in copies {
            assert_eq!(by_address.lookup_static(s), Ok(reference[s]), "{s:?}");
        }
        let fresh: &'static str = Box::leak("param-7".to_string().into_boxed_str());
        assert_eq!(by_address.lookup_static(fresh), Ok(reference["param-7"]));
        assert!(matches!(
            by_address.lookup_static("never-interned"),
            Err(StoreError::Schema(_))
        ));
    }

    #[test]
    fn encoders_clear_and_reuse_the_callers_buffer() {
        let mut buf = vec![0xee; 64];
        let mut enc = UIntEncoder::new(&mut buf);
        enc.push(7);
        enc.push(9);
        assert_eq!(buf, [14, 4], "zigzag deltas of 7 and 2, stale bytes gone");
        let mut enc = F64Encoder::new(&mut buf);
        enc.push(0.0);
        assert_eq!(buf, [0]);
    }
}
