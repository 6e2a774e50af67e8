#![forbid(unsafe_code)]
//! # mm-json — a minimal in-tree JSON codec
//!
//! The workspace writes JSON for telemetry snapshots, bench reports,
//! `mmlint --json`, the mm-net wire documents and store manifests, and
//! reads it back only as an untyped [`Json`] tree. This crate carries that
//! surface instead of pulling `serde`/`serde_json` from a registry: the
//! [`Json`] value, a strict parser ([`Json::parse`], [`ParseError`]) and
//! [`ToJson`] for primitives, `Option`, `Vec`, slices and pairs.
//!
//! Output is compact (no whitespace); `f64` values are written with Rust's
//! shortest round-trip formatting, so parsing the text back is bit-exact
//! for finite values.

mod parse;
mod value;

pub use parse::ParseError;
pub use value::Json;

/// Serialize a value into a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Compact JSON text (shorthand for `self.to_json().to_string()`).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize_to_parseable_text() {
        for v in [0.0f64, -1.5, 4.0, 1e300, 0.1, f64::MIN_POSITIVE] {
            let js = v.to_json_string();
            let back = Json::parse(&js).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{js}");
        }
        assert_eq!(850u32.to_json_string(), "850");
        assert_eq!(true.to_json_string(), "true");
        assert_eq!("a\nb".to_json_string(), "\"a\\nb\"");
        assert_eq!(None::<f64>.to_json_string(), "null");
        assert_eq!(Some(2.5).to_json_string(), "2.5");
        assert_eq!(vec![1u8, 2, 3].to_json_string(), "[1,2,3]");
        assert_eq!((7u32, 2.0f64).to_json_string(), "[7,2]");
    }
}
