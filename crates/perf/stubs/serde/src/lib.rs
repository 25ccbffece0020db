//! Offline stand-in for `serde`: a self-describing [`Value`] tree instead of
//! the visitor machinery. `Serialize` renders into a `Value`, `Deserialize`
//! reads out of one; `serde_json` (the sibling stub) prints and parses the
//! tree. Field order, externally tagged enums, `Option` ⇄ `null`, and exact
//! `u64`/`i64`/`f64` round-trips match what the workspace relies on.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value. Maps keep insertion order (struct field order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "a sequence",
            Value::Map(_) => "a map",
        }
    }
}

/// (De)serialization failure with a human-readable cause.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    pub fn invalid(expected: &str, got: &Value) -> Self {
        Error(format!("invalid type: {}, expected {expected}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Value for a field absent from the input: `Some(None)` for `Option`,
    /// an error for everything else (unless `#[serde(default)]` says so).
    fn missing() -> Option<Self> {
        None
    }
}

pub mod de {
    pub use crate::{Deserialize, Error};

    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

// ---- primitives -----------------------------------------------------------

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::U64(n) => <$t>::try_from(n).map_err(Error::custom),
                    Value::I64(n) => <$t>::try_from(n).map_err(Error::custom),
                    _ => Err(Error::invalid(stringify!($t), v)),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::U64(n) => <$t>::try_from(n).map_err(Error::custom),
                    Value::I64(n) => <$t>::try_from(n).map_err(Error::custom),
                    _ => Err(Error::invalid(stringify!($t), v)),
                }
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

macro_rules! float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::F64(x) => Ok(x as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    _ => Err(Error::invalid(stringify!($t), v)),
                }
            }
        }
    )*};
}
float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(Error::invalid("a boolean", v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::invalid("a string", v)),
        }
    }
}

impl Serialize for PathBuf {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string_lossy().into_owned())
    }
}

impl Deserialize for PathBuf {
    fn from_value(v: &Value) -> Result<Self, Error> {
        String::from_value(v).map(PathBuf::from)
    }
}

// ---- composites -----------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            _ => T::from_value(v).map(Some),
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::invalid("a sequence", v)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let got = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error(format!("invalid length {got}, expected an array of {N}")))
    }
}

macro_rules! tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($n),+].len();
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    _ => Err(Error::invalid("a tuple", v)),
                }
            }
        }
    )*};
}
tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Map keys travel as strings: string-like keys (strings, unit enum
/// variants) as themselves, numeric keys (integers, integer newtypes) in
/// decimal — the same convention `serde_json` applies.
fn key_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        other => panic!(
            "map key must be a string or an integer, got {}",
            other.kind()
        ),
    }
}

fn key_parse<K: Deserialize>(s: &str) -> Result<K, Error> {
    K::from_value(&Value::Str(s.to_string())).or_else(|e| {
        if let Ok(n) = s.parse::<u64>() {
            K::from_value(&Value::U64(n))
        } else if let Ok(n) = s.parse::<i64>() {
            K::from_value(&Value::I64(n))
        } else {
            Err(e)
        }
    })
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((key_parse(k)?, V::from_value(v)?)))
                .collect(),
            _ => Err(Error::invalid("a map", v)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---- helpers the derive expands to ------------------------------------------

#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    pub fn as_map<'a>(v: &'a Value, ty: &str) -> Result<&'a [(String, Value)], Error> {
        match v {
            Value::Map(m) => Ok(m),
            _ => Err(Error::invalid(&format!("struct {ty}"), v)),
        }
    }

    pub fn as_seq<'a>(v: &'a Value, len: usize, ty: &str) -> Result<&'a [Value], Error> {
        match v {
            Value::Seq(s) if s.len() == len => Ok(s),
            _ => Err(Error::invalid(&format!("{ty} with {len} elements"), v)),
        }
    }

    fn find<'a>(m: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        m.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Required field (absent is only fine for `Option`).
    pub fn field<T: Deserialize>(m: &[(String, Value)], name: &str) -> Result<T, Error> {
        match find(m, name) {
            Some(v) => T::from_value(v).map_err(|e| Error(format!("{name}: {e}"))),
            None => T::missing().ok_or_else(|| Error(format!("missing field `{name}`"))),
        }
    }

    /// `#[serde(default)]` / `#[serde(default = "path")]` field.
    pub fn field_or<T: Deserialize>(
        m: &[(String, Value)],
        name: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match find(m, name) {
            Some(v) => T::from_value(v).map_err(|e| Error(format!("{name}: {e}"))),
            None => Ok(default()),
        }
    }

    pub fn deny_unknown(m: &[(String, Value)], known: &[&str], ty: &str) -> Result<(), Error> {
        match m.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(Error(format!(
                "unknown field `{k}` in {ty}, expected one of {}",
                known.join(", ")
            ))),
            None => Ok(()),
        }
    }

    /// Split an externally tagged enum value into (variant name, payload).
    pub fn variant<'a>(v: &'a Value, ty: &str) -> Result<(&'a str, Option<&'a Value>), Error> {
        match v {
            Value::Str(s) => Ok((s, None)),
            Value::Map(m) if m.len() == 1 => Ok((&m[0].0, Some(&m[0].1))),
            _ => Err(Error::invalid(&format!("enum {ty}"), v)),
        }
    }

    pub fn unknown_variant(name: &str, ty: &str) -> Error {
        Error(format!("unknown variant `{name}` of enum {ty}"))
    }

    pub fn payload<'a>(p: Option<&'a Value>, variant: &str) -> Result<&'a Value, Error> {
        p.ok_or_else(|| Error(format!("variant `{variant}` needs a payload")))
    }
}
