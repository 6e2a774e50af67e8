//! The JSON value tree and compact serializer.

use core::fmt;

/// A parsed JSON document.
///
/// Objects preserve insertion order (they are a `Vec` of pairs, not a map):
/// the workspace's documents are tiny and field order stability keeps the
/// written documents diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse JSON text into a value tree.
    pub fn parse(s: &str) -> Result<Json, crate::ParseError> {
        crate::parse::parse(s)
    }

    /// Borrow the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow the members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Look up a member of an object by key. Returns `None` for missing
    /// keys *and* for non-objects, which makes chained lookups ergonomic.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Build an object from key/value pairs (helper for hand-written
    /// `ToJson` impls: `Json::obj([("ms", ms.to_json()), ...])`).
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// `value["key"]` sugar, serde_json-style: missing keys and non-objects
/// index to `Json::Null` instead of panicking.
impl core::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        const NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl core::ops::Index<usize> for Json {
    type Output = Json;

    fn index(&self, idx: usize) -> &Json {
        const NULL: Json = Json::Null;
        match self {
            Json::Arr(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Compact serialization (no whitespace), matching `serde_json::to_string`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serde_json errors here, we degrade to null.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        // Integral values print without the trailing `.0` Rust's float
        // Display would add, matching serde's integer formatting.
        return write!(f, "{}", n as i64);
    }
    // Rust's f64 Display is shortest-round-trip, same family as Grisu/Ryū.
    write!(f, "{n}")
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_serde_json_conventions() {
        let v = Json::obj([
            ("name", Json::Str("AT&T".into())),
            ("hys_db", Json::Num(2.0)),
            ("ttt_ms", Json::Num(640.0)),
            (
                "tags",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"AT&T","hys_db":2,"ttt_ms":640,"tags":[1.5,null,true]}"#
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn index_is_total() {
        let v = Json::parse(r#"{"kind":"d1","records":12}"#).unwrap();
        assert_eq!(v["kind"].as_str(), Some("d1"));
        assert_eq!(v["records"].as_u64(), Some(12));
        assert!(v["missing"].is_null());
        assert!(v["missing"]["deeper"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn negative_and_large_numbers() {
        assert_eq!(Json::Num(-5.0).to_string(), "-5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        // Rust's Display spells large floats out in full; the parser takes
        // them back bit-exactly.
        for big in [1.0e300, 9.2e18, -3.7e40] {
            let text = Json::Num(big).to_string();
            assert_eq!(
                Json::parse(&text).unwrap().as_f64().unwrap().to_bits(),
                big.to_bits()
            );
        }
    }
}
