//! One declaration per persisted field.
//!
//! A type's checkpoint encoding is the list of its persisted fields in
//! wire order, written once with [`persist!`](crate::persist!). Encode and
//! decode are both generated from that list, so they cannot disagree
//! about the order.
//!
//! Decoding is **in place**: it overwrites the persisted fields of a value
//! just built from the same inputs as the encoded one, and every other
//! field (models, budgets, caches rebuilt on demand) keeps its built
//! value. Container shapes follow one rule:
//!
//! - a `Vec`, `VecDeque`, slice or `Option` field is *fixed*: the encoded
//!   length (or presence) must be the one the built value already has,
//!   else decoding fails with [`CodecError::Invalid`] — "one entry per
//!   core" needs no check of its own;
//! - a field declared `as Resized` takes the encoded length or presence;
//!   new elements start from `Default` and are then decoded in place.
//!
//! Like the codec underneath, decoding never panics: every failure is a
//! typed [`CodecError`].

use std::collections::VecDeque;

use crate::codec::{CodecError, Decoder, Encoder};

/// A value with a checkpoint encoding. Implemented by [`persist!`] for
/// structs and enums, and here for scalars and containers.
///
/// [`persist!`]: crate::persist!
pub trait Persist {
    /// Appends the persisted fields to `enc`, in declaration order.
    fn encode(&self, enc: &mut Encoder);

    /// Overwrites the persisted fields from `dec`, in declaration order,
    /// leaving every other field as built. `field` names the value in
    /// error reports.
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError>;
}

/// A field encoding chosen in a declaration with `field as Via` instead of
/// the field type's own [`Persist`] impl.
pub trait Via<T: ?Sized> {
    /// Appends `v` to `enc`.
    fn encode(v: &T, enc: &mut Encoder);
    /// Overwrites `v` from `dec`.
    fn decode(v: &mut T, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError>;
}

/// Fails with [`CodecError::Invalid`] unless `pred(v)` holds: the
/// `check` clause of a declaration.
pub fn check<T: ?Sized>(
    v: &T,
    pred: impl FnOnce(&T) -> bool,
    field: &'static str,
    reason: &'static str,
) -> Result<(), CodecError> {
    if pred(v) {
        Ok(())
    } else {
        Err(CodecError::Invalid { field, reason })
    }
}

/// A finite value greater than zero.
pub fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// A finite value of at least zero.
pub fn non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Decodes a fresh `T`, starting from its default: for values with no
/// built counterpart, such as a job carried in a pending event.
pub fn decode_default<T: Persist + Default>(
    dec: &mut Decoder<'_>,
    field: &'static str,
) -> Result<T, CodecError> {
    let mut v = T::default();
    v.decode(dec, field)?;
    Ok(v)
}

/// Writes `v` as a length-prefixed sub-encoding, so a reader can tell
/// where it ends without knowing its layout.
pub fn encode_framed<T: Persist + ?Sized>(v: &T, enc: &mut Encoder) {
    let mut sub = Encoder::new();
    v.encode(&mut sub);
    enc.put_bytes(&sub.into_bytes());
}

/// Reads a sub-encoding written by [`encode_framed`] into `v`; the frame
/// must hold exactly `v`'s fields.
pub fn decode_framed<T: Persist + ?Sized>(
    v: &mut T,
    dec: &mut Decoder<'_>,
    field: &'static str,
) -> Result<(), CodecError> {
    let bytes = dec.get_bytes(field)?;
    let mut sub = Decoder::new(&bytes);
    v.decode(&mut sub, field)?;
    sub.finish(field)
}

macro_rules! scalar {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Persist for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
                *self = dec.$get(field)?;
                Ok(())
            }
        }
    )*};
}

scalar! {
    u8 => put_u8, get_u8;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    f64 => put_f64, get_f64;
    bool => put_bool, get_bool;
}

impl Persist for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(*self);
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        *self = dec.get_usize_bounded(field, usize::MAX)?;
        Ok(())
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        self.0.decode(dec, field)?;
        self.1.decode(dec, field)
    }
}

/// Reads a length prefix that must equal `len`, the built length.
fn fixed_len(dec: &mut Decoder<'_>, field: &'static str, len: usize) -> Result<(), CodecError> {
    if dec.get_len(field)? == len {
        Ok(())
    } else {
        Err(CodecError::Invalid {
            field,
            reason: "length disagrees with the built value",
        })
    }
}

impl<T: Persist> Persist for [T] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for x in self {
            x.encode(enc);
        }
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        fixed_len(dec, field, self.len())?;
        self.iter_mut().try_for_each(|x| x.decode(dec, field))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        self.as_slice().encode(enc);
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        self.as_mut_slice().decode(dec, field)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for x in self {
            x.encode(enc);
        }
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        fixed_len(dec, field, self.len())?;
        self.iter_mut().try_for_each(|x| x.decode(dec, field))
    }
}

/// `None` is tag 0; `Some(v)` is tag 1 followed by `v`.
impl<T: Persist> Persist for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(&mut self, dec: &mut Decoder<'_>, field: &'static str) -> Result<(), CodecError> {
        match (option_tag(dec, field)?, self.as_mut()) {
            (false, None) => Ok(()),
            (true, Some(v)) => v.decode(dec, field),
            _ => Err(CodecError::Invalid {
                field,
                reason: "presence disagrees with the built value",
            }),
        }
    }
}

fn option_tag(dec: &mut Decoder<'_>, field: &'static str) -> Result<bool, CodecError> {
    match dec.get_u8(field)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { field, tag }),
    }
}

/// `field as Resized`: the field takes the encoded length or presence.
#[derive(Debug)]
pub struct Resized;

/// Both resizable sequences decode alike: truncate to the encoded
/// length, decode the kept elements in place, then decode each further
/// element into a `Default` before it is appended, so memory follows the
/// bytes actually read rather than the length prefix.
macro_rules! resized_seq {
    ($($seq:ident => $push:ident;)*) => {$(
        impl<T: Persist + Default> Via<$seq<T>> for Resized {
            fn encode(v: &$seq<T>, enc: &mut Encoder) {
                v.encode(enc);
            }
            fn decode(
                v: &mut $seq<T>,
                dec: &mut Decoder<'_>,
                field: &'static str,
            ) -> Result<(), CodecError> {
                let n = dec.get_len(field)?;
                v.truncate(n);
                v.iter_mut().try_for_each(|x| x.decode(dec, field))?;
                while v.len() < n {
                    v.$push(decode_default(dec, field)?);
                }
                Ok(())
            }
        }
    )*};
}

resized_seq! {
    Vec => push;
    VecDeque => push_back;
}

impl<T: Persist + Default> Via<Option<T>> for Resized {
    fn encode(v: &Option<T>, enc: &mut Encoder) {
        v.encode(enc);
    }
    fn decode(
        v: &mut Option<T>,
        dec: &mut Decoder<'_>,
        field: &'static str,
    ) -> Result<(), CodecError> {
        if option_tag(dec, field)? {
            v.get_or_insert_with(T::default).decode(dec, field)
        } else {
            *v = None;
            Ok(())
        }
    }
}

/// `field as OptBool`: an `Option<bool>` in one byte (0 = none,
/// 1 = false, 2 = true).
#[derive(Debug)]
pub struct OptBool;

impl Via<Option<bool>> for OptBool {
    fn encode(v: &Option<bool>, enc: &mut Encoder) {
        enc.put_opt_bool(*v);
    }
    fn decode(
        v: &mut Option<bool>,
        dec: &mut Decoder<'_>,
        field: &'static str,
    ) -> Result<(), CodecError> {
        *v = dec.get_opt_bool(field)?;
        Ok(())
    }
}

/// Declares a type's persisted fields once, in wire order, and implements
/// [`Persist`] from that list.
///
/// For a struct, list the persisted fields (a tuple struct's by index).
/// A field may name a [`Via`] in this module (`jobs as Resized`), and
/// `check` clauses after the list run once every field is decoded:
///
/// ```
/// use ge_recover::persist::positive;
/// use ge_recover::{persist, Decoder, Encoder, Persist};
///
/// #[derive(Default)]
/// struct Job {
///     id: u64,
///     demand: f64,
///     history: Vec<f64>,
///     /// Derived: never persisted, kept as built on decode.
///     cached: f64,
/// }
///
/// persist! {
///     Job { id, demand, history as Resized }
///     check |j| positive(j.demand) => "malformed demand";
/// }
///
/// let job = Job { id: 7, demand: 2.5, history: vec![1.0], cached: 9.0 };
/// let mut enc = Encoder::new();
/// job.encode(&mut enc);
/// let bytes = enc.into_bytes();
/// let mut back = Job::default();
/// assert!(back.decode(&mut Decoder::new(&bytes), "job").is_ok());
/// assert_eq!((back.id, back.history, back.cached), (7, vec![1.0], 0.0));
/// ```
///
/// For an enum, give the tag type and each variant's tag; decoding builds
/// the variant's fields from `Default`:
///
/// ```
/// # use ge_recover::persist;
/// enum Mode {
///     Cumulative,
///     Window(usize),
///     Scaled { factor: f64 },
/// }
/// persist! {
///     enum Mode: u64 { 0 => Cumulative, 1 => Window(n), 2 => Scaled { factor } }
/// }
/// ```
#[macro_export]
macro_rules! persist {
    (
        enum $ty:ident: $tag:ty {
            $($t:literal => $var:ident $(( $($p:ident),* ))? $({ $($f:ident),* })?),* $(,)?
        }
    ) => {
        impl $crate::Persist for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                match self {$(
                    $ty::$var $(( $($p),* ))? $({ $($f),* })? => {
                        $crate::Persist::encode(&($t as $tag), enc);
                        $($($crate::Persist::encode($p, enc);)*)?
                        $($($crate::Persist::encode($f, enc);)*)?
                    }
                )*}
            }

            fn decode(
                &mut self,
                dec: &mut $crate::Decoder<'_>,
                field: &'static str,
            ) -> ::core::result::Result<(), $crate::CodecError> {
                let mut tag: $tag = 0;
                $crate::Persist::decode(&mut tag, dec, field)?;
                match tag {
                    $($t => {
                        $($(let $p = $crate::persist::decode_default(dec, field)?;)*)?
                        $($(let $f = $crate::persist::decode_default(dec, field)?;)*)?
                        *self = $ty::$var $(( $($p),* ))? $({ $($f),* })?;
                    })*
                    _ => {
                        return Err($crate::CodecError::BadTag {
                            field,
                            tag: u8::try_from(tag).unwrap_or(u8::MAX),
                        })
                    }
                }
                Ok(())
            }
        }
    };
    (
        $ty:ident { $($field:tt $(as $via:ident)?),* $(,)? }
        $(check $pred:expr => $reason:literal;)*
    ) => {
        impl $crate::Persist for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                $($crate::persist!(@encode self.$field, enc $(, $via)?);)*
            }

            fn decode(
                &mut self,
                dec: &mut $crate::Decoder<'_>,
                _field: &'static str,
            ) -> ::core::result::Result<(), $crate::CodecError> {
                $($crate::persist!(
                    @decode self.$field, dec,
                    concat!(stringify!($ty), ".", stringify!($field)) $(, $via)?
                );)*
                $($crate::persist::check(&*self, $pred, stringify!($ty), $reason)?;)*
                Ok(())
            }
        }
    };
    (@encode $v:expr, $enc:ident) => {
        $crate::Persist::encode(&$v, $enc)
    };
    (@encode $v:expr, $enc:ident, $via:ident) => {
        <$crate::persist::$via as $crate::persist::Via<_>>::encode(&$v, $enc)
    };
    (@decode $v:expr, $dec:ident, $name:expr) => {
        $crate::Persist::decode(&mut $v, $dec, $name)?
    };
    (@decode $v:expr, $dec:ident, $name:expr, $via:ident) => {
        <$crate::persist::$via as $crate::persist::Via<_>>::decode(&mut $v, $dec, $name)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        count: u64,
        per_core: Vec<f64>,
        log: VecDeque<(f64, f64)>,
        next: Option<u64>,
        fixed: Option<u64>,
        split: Option<bool>,
        derived: u32,
    }

    crate::persist! {
        Sample {
            count,
            per_core,
            log as Resized,
            next as Resized,
            fixed,
            split as OptBool,
        }
        check |s| s.count < 100 => "count out of range";
    }

    #[derive(Debug, PartialEq)]
    enum Mode {
        Off,
        Window(usize),
        Scaled { core: usize, factor: f64 },
    }

    crate::persist! {
        enum Mode: u8 { 0 => Off, 1 => Window(n), 3 => Scaled { core, factor } }
    }

    fn bytes(v: &impl Persist) -> Vec<u8> {
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        enc.into_bytes()
    }

    fn built() -> Sample {
        Sample {
            per_core: vec![0.0; 3],
            fixed: Some(0),
            derived: 5,
            ..Sample::default()
        }
    }

    fn sample() -> Sample {
        Sample {
            count: 9,
            per_core: vec![1.0, -0.0, f64::MAX],
            log: [(1.0, 2.0), (3.0, 4.0)].into(),
            next: Some(4),
            fixed: Some(8),
            split: Some(true),
            derived: 0,
        }
    }

    #[test]
    fn declared_fields_round_trip_in_place_and_keep_derived_fields() {
        let src = sample();
        let encoded = bytes(&src);
        let mut dst = built();
        dst.log = [(7.0, 7.0); 5].into();
        let mut dec = Decoder::new(&encoded);
        dst.decode(&mut dec, "sample").unwrap();
        dec.finish("sample").unwrap();
        assert_eq!(dst.derived, 5, "an undeclared field keeps its built value");
        assert_eq!(Sample { derived: 0, ..dst }, src);
    }

    #[test]
    fn the_wire_is_the_codec_in_declaration_order() {
        let mut enc = Encoder::new();
        enc.put_u64(9);
        enc.put_usize(3);
        for x in [1.0, -0.0, f64::MAX] {
            enc.put_f64(x);
        }
        enc.put_usize(2);
        for x in [1.0, 2.0, 3.0, 4.0] {
            enc.put_f64(x);
        }
        for some in [4, 8] {
            enc.put_u8(1);
            enc.put_u64(some);
        }
        enc.put_opt_bool(Some(true));
        assert_eq!(bytes(&sample()), enc.into_bytes());
    }

    #[test]
    fn fixed_shapes_and_checks_are_typed_errors() {
        let encoded = bytes(&sample());
        let mut short = built();
        short.per_core.pop();
        let err = short.decode(&mut Decoder::new(&encoded), "s").unwrap_err();
        assert!(matches!(
            err,
            CodecError::Invalid {
                field: "Sample.per_core",
                ..
            }
        ));
        let mut absent = built();
        absent.fixed = None;
        let err = absent.decode(&mut Decoder::new(&encoded), "s").unwrap_err();
        assert!(matches!(
            err,
            CodecError::Invalid {
                field: "Sample.fixed",
                ..
            }
        ));
        let too_many = bytes(&Sample {
            count: 100,
            ..sample()
        });
        let err = built()
            .decode(&mut Decoder::new(&too_many), "s")
            .unwrap_err();
        assert_eq!(
            err,
            CodecError::Invalid {
                field: "Sample",
                reason: "count out of range"
            }
        );
        for cut in 0..encoded.len() {
            assert!(built()
                .decode(&mut Decoder::new(&encoded[..cut]), "s")
                .is_err());
        }
    }

    #[test]
    fn enums_round_trip_and_reject_unknown_tags() {
        for mode in [
            Mode::Off,
            Mode::Window(12),
            Mode::Scaled {
                core: 3,
                factor: 0.5,
            },
        ] {
            let encoded = bytes(&mode);
            let mut back = Mode::Off;
            back.decode(&mut Decoder::new(&encoded), "mode").unwrap();
            assert_eq!(back, mode);
        }
        assert_eq!(bytes(&Mode::Window(2)), [1, 2, 0, 0, 0, 0, 0, 0, 0]);
        let mut back = Mode::Off;
        assert_eq!(
            back.decode(&mut Decoder::new(&[2]), "mode"),
            Err(CodecError::BadTag {
                field: "mode",
                tag: 2
            })
        );
    }

    #[test]
    fn framed_values_must_fill_their_frame() {
        let mut enc = Encoder::new();
        encode_framed(&7u64, &mut enc);
        let encoded = enc.into_bytes();
        let mut v = 0u64;
        decode_framed(&mut v, &mut Decoder::new(&encoded), "v").unwrap();
        assert_eq!(v, 7);
        let mut wide = (0u64, 0u64);
        assert!(decode_framed(&mut wide, &mut Decoder::new(&encoded), "v").is_err());
        let mut narrow = 0u8;
        assert!(decode_framed(&mut narrow, &mut Decoder::new(&encoded), "v").is_err());
    }
}
