//! Hermetic shim for `serde_json`: a self-contained `Value` tree, the
//! `json!` construction macro, a recursive-descent parser (`from_str`), and
//! compact serialisation (`Display` / `to_string`). No serde data model —
//! the workspace only ever manipulates dynamic `Value`s.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

pub mod map;
pub use map::Map;

/// Numeric JSON value. Cross-variant comparisons are numeric, so a parsed
/// `5` equals a constructed `5.0`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer exceeding `i64::MAX` (or constructed from `u64`).
    U64(u64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// Numeric value as `f64` (always possible, possibly lossy).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// Numeric value as `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F64(_) => None,
        }
    }

    /// Numeric value as `u64` if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

// Matches the real crate, where `Number` (and hence `Value`) is `Eq`; the
// NaN caveat doesn't arise because nothing in this workspace stores NaN.
impl Eq for Number {}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::I64(v) => write!(f, "{v}"),
            Number::U64(v) => write!(f, "{v}"),
            Number::F64(v) if v.is_finite() => write!(f, "{v:?}"),
            Number::F64(_) => write!(f, "null"),
        }
    }
}

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Value {
    /// `null` (also the default).
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A string-keyed map (sorted keys — deterministic output).
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Borrow as an object, if this is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrow as an object, if this is one.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutably borrow as an array, if this is one.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric value as `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            '\u{08}' => write!(f, "\\b")?,
            '\u{0c}' => write!(f, "\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

// ---------------------------------------------------------------------------
// Conversions into Value (the surface `json!` interpolation relies on).
// ---------------------------------------------------------------------------

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::I64(v as i64)) }
        }
    )*};
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::U64(v as u64)) }
        }
    )*};
}

from_signed!(i8, i16, i32, i64, isize);
from_unsigned!(u8, u16, u32, u64, usize);

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::F64(v as f64))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::F64(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl From<Cow<'_, str>> for Value {
    fn from(v: Cow<'_, str>) -> Value {
        Value::String(v.into_owned())
    }
}

impl From<Map> for Value {
    fn from(v: Map) -> Value {
        Value::Object(v)
    }
}

impl From<&Value> for Value {
    fn from(v: &Value) -> Value {
        v.clone()
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<K: Into<String>, V: Into<Value>> From<BTreeMap<K, V>> for Value {
    fn from(m: BTreeMap<K, V>) -> Value {
        Value::Object(m.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// By-reference conversion used by `json!` interpolation — mirrors the real
/// macro's `to_value(&expr)`, so interpolating a field never moves it.
pub trait ToJsonValue {
    /// Convert a borrowed value into a JSON tree.
    fn to_json_value(&self) -> Value;
}

/// Entry point `json!` expands to for interpolated expressions.
pub fn to_value<T: ToJsonValue + ?Sized>(v: &T) -> Value {
    v.to_json_value()
}

impl<T: ToJsonValue + ?Sized> ToJsonValue for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

macro_rules! to_value_via_copy {
    ($($t:ty),*) => {$(
        impl ToJsonValue for $t {
            fn to_json_value(&self) -> Value { Value::from(*self) }
        }
    )*};
}

to_value_via_copy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64, bool);

impl ToJsonValue for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJsonValue for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToJsonValue for Cow<'_, str> {
    fn to_json_value(&self) -> Value {
        Value::String(self.as_ref().to_string())
    }
}

impl ToJsonValue for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl ToJsonValue for Map {
    fn to_json_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl<T: ToJsonValue> ToJsonValue for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJsonValue::to_json_value).collect())
    }
}

impl<T: ToJsonValue> ToJsonValue for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(ToJsonValue::to_json_value).collect())
    }
}

impl<T: ToJsonValue> ToJsonValue for Option<T> {
    fn to_json_value(&self) -> Value {
        self.as_ref()
            .map_or(Value::Null, ToJsonValue::to_json_value)
    }
}

impl<K: Ord + AsRef<str>, V: ToJsonValue> ToJsonValue for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json_value()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Literal comparisons (assert_eq!(v["x"], 42) and friends).
// ---------------------------------------------------------------------------

macro_rules! eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Number(n) if *n == Number::from_literal(*other))
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool { other == self }
        }
    )*};
}

impl Number {
    fn from_literal<T: Into<Value>>(v: T) -> Number {
        match v.into() {
            Value::Number(n) => n,
            _ => unreachable!("literal is numeric"),
        }
    }
}

eq_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<Value> for String {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(self.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

// ---------------------------------------------------------------------------
// Indexing: v["key"], v[3]; v["key"] = x auto-vivifies through Null.
// ---------------------------------------------------------------------------

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if self.is_null() {
            *self = Value::Object(Map::new());
        }
        match self {
            Value::Object(map) => map.entry_or_null(key),
            other => panic!("cannot index {} with a string key", kind(other)),
        }
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

// ---------------------------------------------------------------------------
// json! macro (TT-munching construction, serde_json style).
// ---------------------------------------------------------------------------

/// Build a [`Value`] from JSON-like syntax with expression interpolation.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            #[allow(unused_mut)]
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Implementation detail of [`json!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ---- arrays: accumulate elements, recursing into json! per element ----
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ---- objects: munch key tokens until `:`, then capture the value ----
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// Parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for Error {}

/// Parse a JSON document into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Serialise a [`Value`] compactly. Infallible for this shim's `Value`; the
/// `Result` keeps serde_json's signature.
pub fn to_string(value: &Value) -> Result<String, Error> {
    Ok(value.to_string())
}

/// Deepest nesting of arrays and objects a document may have (upstream
/// serde_json's limit): deeper input is refused with an error instead of
/// recursing until the stack overflows.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an array or object one level deeper than the current one.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let c = match code {
                                // A high surrogate followed by an escaped low
                                // one is a single character (how UTF-16 based
                                // writers spell anything above U+FFFF).
                                0xD800..=0xDBFF => self.low_surrogate().map(|low| {
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }),
                                _ => Some(code),
                            };
                            // Unpaired surrogates degrade to U+FFFD.
                            out.push(c.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one go
                    // (UTF-8 continuation bytes are >= 0x80, never '"' or
                    // '\\', so a byte scan lands on character boundaries).
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// The four hex digits of a `\\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        Ok(hex
            .iter()
            .fold(0, |n, &d| n * 16 + (d as char).to_digit(16).unwrap()))
    }

    /// The low surrogate of a `\\uDC00`..`\\uDFFF` escape right after the
    /// one ending at the current byte, if that is what follows.
    fn low_surrogate(&self) -> Option<u32> {
        if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
            return None;
        }
        self.hex4(self.pos + 3)
            .ok()
            .filter(|low| (0xDC00..=0xDFFF).contains(low))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(u)));
            }
        }
        let f = text.parse::<f64>().map_err(|_| self.err("bad number"))?;
        // `1e999` overflows to infinity, which JSON cannot carry back out.
        if !f.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Number(Number::F64(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_documents() {
        let name = "granule".to_string();
        let doc = json!({
            "file": name,
            "tiles": [1, 2, 3],
            "meta": { "night": false, "lat": -12.5 },
            "nothing": null,
        });
        assert_eq!(doc["file"], "granule");
        assert_eq!(doc["tiles"][2], 3);
        assert_eq!(doc["meta"]["lat"], -12.5);
        assert_eq!(doc["meta"]["night"], false);
        assert!(doc["nothing"].is_null());
        assert!(doc["missing"].is_null());
    }

    #[test]
    fn roundtrip_parse_and_print() {
        let src = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#;
        let v = from_str(src).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], 2.5);
        assert_eq!(v["a"][2], "x\n");
        assert_eq!(v["b"]["c"], -3);
        let printed = v.to_string();
        assert_eq!(from_str(&printed).unwrap(), v);
    }

    #[test]
    fn index_mut_auto_vivifies() {
        let mut ctx = json!({ "input": 1 });
        ctx["result"] = json!({ "ok": true });
        assert_eq!(ctx["result"]["ok"], true);
        let mut blank = Value::Null;
        blank["x"] = json!(7);
        assert_eq!(blank["x"], 7);
    }

    #[test]
    fn numeric_equality_is_cross_variant() {
        assert_eq!(from_str("5").unwrap(), json!(5.0));
        assert_eq!(json!(8usize), 8);
        assert_eq!(json!(5.0), 5.0);
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = from_str("{\"a\": }").unwrap_err();
        assert!(e.to_string().contains("at byte"));
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("[1] junk").is_err());
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        // What Python's `json.dumps("😀")` writes.
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(from_str(r#""a\uD83D\uDE00b""#).unwrap(), "a\u{1F600}b");
        // Only unpaired halves degrade to U+FFFD, one each.
        assert_eq!(from_str(r#""\ud83dx""#).unwrap(), "\u{fffd}x");
        assert_eq!(from_str(r#""\ude00\ud83d""#).unwrap(), "\u{fffd}\u{fffd}");
        assert_eq!(from_str(r#""\ud83d\u0041""#).unwrap(), "\u{fffd}A");
        assert!(
            from_str(r#""\ud83d\u00""#).is_err(),
            "truncated second escape"
        );
    }

    #[test]
    fn numbers_beyond_f64_are_out_of_range() {
        for text in ["1e999", "-1e999", "[1, 2e400]"] {
            let e = from_str(text).unwrap_err();
            assert!(e.to_string().contains("number out of range"), "{text}: {e}");
        }
        assert_eq!(from_str("1e308").unwrap(), 1e308);
    }

    #[test]
    fn collections_convert() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), vec![1i32, 2]);
        let v: Value = m.into();
        assert_eq!(v["k"][1], 2);
    }
}
