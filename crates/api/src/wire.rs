//! The one field codec every wire DTO shares.
//!
//! A DTO whose wire form is its field list declares that list once, in
//! wire order, with [`wire_object!`]; fieldless enums spelled by name
//! declare their name table once and get their codec from
//! [`wire_names!`]. Every field's JSON form and decode error comes from
//! its type's [`Wire`] impl, so one set of rules holds for every object
//! (`API.md`, "Decoding rules"):
//!
//! * keys are written in declaration order;
//! * a missing required key, or a key of the wrong type, is an
//!   [`ErrorKind::Json`] error naming the object and the key;
//! * `None` or a field's default comes only from an absent key or `null`;
//! * a non-object where an object belongs is an error, even when every
//!   field of that object is optional.
//!
//! The few DTOs whose wire form is not their field list (tagged unions,
//! flattened or conditional keys) keep hand-written codecs, which still
//! read and write each field through [`Wire`] via [`field`] and
//! [`Wire::to_wire`].

use std::fmt;

use crate::dto::SCHEMA_VERSION;
use crate::error::{ErrorKind, LeqaError};
use crate::json::Json;

/// Where a value sits in the document being decoded: the object's name,
/// the key, and the element index when the key holds an array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At<'a> {
    what: &'a str,
    key: &'a str,
    index: Option<usize>,
}

impl<'a> At<'a> {
    pub(crate) fn new(what: &'a str, key: &'a str) -> Self {
        At {
            what,
            key,
            index: None,
        }
    }

    /// The `json` error "`{what}: `{key}` {problem}`".
    #[cold]
    pub(crate) fn err(self, problem: impl fmt::Display) -> LeqaError {
        let message = match self.index {
            None => format!("{}: `{}` {problem}", self.what, self.key),
            Some(i) => format!("{}: `{}[{i}]` {problem}", self.what, self.key),
        };
        LeqaError::new(ErrorKind::Json, message)
    }
}

/// A value with one JSON form.
pub(crate) trait Wire: Sized {
    /// Encodes the value.
    fn to_wire(&self) -> Json;

    /// Decodes a value found at `at`.
    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError>;

    /// What an absent key decodes to; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

#[cold]
fn missing(what: &str, key: &str) -> LeqaError {
    LeqaError::new(ErrorKind::Json, format!("{what}: missing field `{key}`"))
}

/// Decodes the required (or, for `Option` types, optional) key `key` of
/// the object `what`.
pub(crate) fn field<T: Wire>(value: &Json, what: &str, key: &str) -> Result<T, LeqaError> {
    match value.get(key) {
        Some(v) => T::from_wire(v, At::new(what, key)),
        None => T::absent().ok_or_else(|| missing(what, key)),
    }
}

/// Decodes the key `key`, with `default` for an absent key or `null`.
pub(crate) fn field_or<T: Wire>(
    value: &Json,
    what: &str,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, LeqaError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(default()),
        Some(v) => T::from_wire(v, At::new(what, key)),
    }
}

/// Decodes an object nested at `at` with its own decoder; a non-object
/// is an error there.
pub(crate) fn nested<T>(
    value: &Json,
    at: At<'_>,
    decode: impl FnOnce(&Json) -> Result<T, LeqaError>,
) -> Result<T, LeqaError> {
    match value {
        Json::Obj(_) => decode(value),
        _ => Err(at.err("must be an object")),
    }
}

/// The object under the required key `key`, for hand-written decoders
/// of blocks that are not DTOs of their own.
pub(crate) fn object_field<'a>(
    value: &'a Json,
    what: &str,
    key: &str,
) -> Result<&'a Json, LeqaError> {
    match value.get(key) {
        Some(block @ Json::Obj(_)) => Ok(block),
        Some(_) => Err(At::new(what, key).err("must be an object")),
        None => Err(missing(what, key)),
    }
}

/// The items under the required array key `key`, for hand-written
/// decoders whose items need more than their own JSON to decode.
pub(crate) fn array_field<'a>(
    value: &'a Json,
    what: &str,
    key: &str,
) -> Result<&'a [Json], LeqaError> {
    value
        .get(key)
        .ok_or_else(|| missing(what, key))?
        .as_arr()
        .ok_or_else(|| At::new(what, key).err("must be an array"))
}

/// Checks an envelope's `schema_version` field.
pub(crate) fn check_schema_version(value: &Json) -> Result<(), LeqaError> {
    match value.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => Ok(()),
        Some(other) => Err(LeqaError::new(
            ErrorKind::Json,
            format!("unsupported schema_version {other} (this build speaks {SCHEMA_VERSION})"),
        )),
        None => Err(LeqaError::new(
            ErrorKind::Json,
            "missing numeric `schema_version` field",
        )),
    }
}

/// Checks that `value` is an object, and for an envelope (`op` given)
/// that it speaks [`SCHEMA_VERSION`], before any key is read.
pub(crate) fn open_object(value: &Json, what: &str, op: Option<&str>) -> Result<(), LeqaError> {
    if op.is_some() {
        check_schema_version(value)?;
    }
    match value {
        Json::Obj(_) => Ok(()),
        _ => Err(LeqaError::new(
            ErrorKind::Json,
            format!("{what} must be an object"),
        )),
    }
}

/// The pairs of an object with `len` fields; an envelope (`op` given)
/// opens with its `schema_version` and `op`.
pub(crate) fn object_pairs(op: Option<&str>, len: usize) -> Vec<(String, Json)> {
    let Some(op) = op else {
        return Vec::with_capacity(len);
    };
    let mut pairs = Vec::with_capacity(len + 2);
    pairs.push(pair("schema_version", &SCHEMA_VERSION));
    pairs.push(("op".to_string(), Json::str(op)));
    pairs
}

/// A key and its encoded value, for hand-written object encoders.
pub(crate) fn pair(key: &str, value: &impl Wire) -> (String, Json) {
    (key.to_string(), value.to_wire())
}

impl Wire for u64 {
    fn to_wire(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        value
            .as_u64()
            .ok_or_else(|| at.err("must be a non-negative integer"))
    }
}

impl Wire for u32 {
    fn to_wire(&self) -> Json {
        Json::num(*self)
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        u32::try_from(u64::from_wire(value, at)?).map_err(|_| at.err("out of range for u32"))
    }
}

impl Wire for f64 {
    fn to_wire(&self) -> Json {
        Json::Num(*self)
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        value.as_f64().ok_or_else(|| at.err("must be a number"))
    }
}

impl Wire for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        value.as_bool().ok_or_else(|| at.err("must be a boolean"))
    }
}

impl Wire for String {
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| at.err("must be a string"))
    }
}

/// `null` on the wire; an absent key decodes as `None` too.
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_wire)
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        match value {
            Json::Null => Ok(None),
            v => T::from_wire(v, at).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_wire).collect())
    }

    fn from_wire(value: &Json, at: At<'_>) -> Result<Self, LeqaError> {
        let items = value.as_arr().ok_or_else(|| at.err("must be an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_wire(
                    item,
                    At {
                        index: Some(i),
                        ..at
                    },
                )
            })
            .collect()
    }
}

/// The variant's name in `names`.
pub(crate) fn name_of<T: Copy + PartialEq>(names: &[(&'static str, T)], value: T) -> &'static str {
    names
        .iter()
        .find(|&&(_, v)| v == value)
        .map(|&(name, _)| name)
        .expect("a name table covers every variant")
}

/// The variant `name` denotes in `names`.
pub(crate) fn from_name<T: Copy>(names: &[(&str, T)], name: &str) -> Option<T> {
    names.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v)
}

/// Decodes a name from `names`; an unknown name is an error listing the
/// known ones.
pub(crate) fn decode_name<T: Copy>(
    names: &[(&str, T)],
    value: &Json,
    at: At<'_>,
) -> Result<T, LeqaError> {
    let name = value.as_str().ok_or_else(|| at.err("must be a string"))?;
    from_name(names, name).ok_or_else(|| {
        let known: Vec<&str> = names.iter().map(|&(n, _)| n).collect();
        at.err(format_args!("must be {}, not `{name}`", known.join("|")))
    })
}

/// Implements [`Wire`] for fieldless enums from their name tables:
/// `wire_names! { Type => TABLE, … }` with `TABLE` a
/// `[(&'static str, Type); N]` listing every variant once.
macro_rules! wire_names {
    ($($ty:ty => $names:expr),* $(,)?) => {$(
        impl $crate::wire::Wire for $ty {
            fn to_wire(&self) -> $crate::json::Json {
                $crate::json::Json::str($crate::wire::name_of(&$names, *self))
            }

            fn from_wire(
                value: &$crate::json::Json,
                at: $crate::wire::At<'_>,
            ) -> Result<Self, $crate::error::LeqaError> {
                $crate::wire::decode_name(&$names, value, at)
            }
        }
    )*};
}

/// Declares a DTO's wire form as its field list, in wire order:
///
/// ```text
/// wire_object!([pub] Type, "object name" [, op = "op"], {
///     field,              // required; `Option` fields may be absent
///     field = default,    // absent or null decodes as `default`
/// } [, check = fn(&Json) -> Result<(), LeqaError>]);
/// ```
///
/// It generates the `to_json`/`from_json` pair (public with `pub`) and
/// the [`Wire`] impl that nests the type in other objects. With `op`,
/// the object is a versioned envelope: `schema_version` and `op` lead
/// the keys and decoding checks the version (the `op` dispatch is the
/// caller's). `check` runs on the whole document before any field is
/// decoded. `wire_object!(@nested Type)` nests a type with a
/// hand-written `to_json`/`from_json` pair the same way.
macro_rules! wire_object {
    (@nested $ty:ty) => {
        impl $crate::wire::Wire for $ty {
            fn to_wire(&self) -> $crate::json::Json {
                self.to_json()
            }

            fn from_wire(
                value: &$crate::json::Json,
                at: $crate::wire::At<'_>,
            ) -> Result<Self, $crate::error::LeqaError> {
                $crate::wire::nested(value, at, Self::from_json)
            }
        }
    };
    (@op $op:literal) => {
        Some($op)
    };
    (@op) => {
        None
    };
    (@field $value:ident, $what:literal, $field:ident) => {
        $crate::wire::field($value, $what, stringify!($field))?
    };
    (@field $value:ident, $what:literal, $field:ident = $default:expr) => {
        $crate::wire::field_or($value, $what, stringify!($field), || $default)?
    };
    (
        $vis:vis $ty:ident, $what:literal
        $(, op = $op:literal)?,
        { $($field:ident $(= $default:expr)?),* $(,)? }
        $(, check = $check:expr)?
    ) => {
        impl $ty {
            #[doc = concat!("Serializes the ", $what, ", keys in declaration order.")]
            #[must_use]
            // One signature for every DTO, `Copy` or not.
            #[allow(clippy::wrong_self_convention)]
            $vis fn to_json(&self) -> $crate::json::Json {
                let fields = [$((stringify!($field), $crate::wire::Wire::to_wire(&self.$field))),*];
                let mut pairs =
                    $crate::wire::object_pairs(wire_object!(@op $($op)?), fields.len());
                pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
                $crate::json::Json::Obj(pairs)
            }

            #[doc = concat!("Decodes the ", $what, " (decoding rules in `API.md`).")]
            ///
            /// # Errors
            ///
            /// [`ErrorKind::Json`](crate::ErrorKind::Json) for a missing or
            /// ill-typed key, a non-object, or an unsupported
            /// `schema_version`; a pre-decode check may add its own kind
            /// (see the type's docs).
            $vis fn from_json(value: &$crate::json::Json) -> Result<Self, $crate::error::LeqaError> {
                $crate::wire::open_object(value, $what, wire_object!(@op $($op)?))?;
                $( ($check)(value)?; )?
                Ok($ty {
                    $($field: wire_object!(@field value, $what, $field $(= $default)?),)*
                })
            }
        }

        wire_object!(@nested $ty);
    };
}

pub(crate) use {wire_names, wire_object};
