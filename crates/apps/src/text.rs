//! Answer and failure text that is rendered only when displayed.
//!
//! Every served request returns an answer and every failed attempt a
//! reason, but the supervisor, the graph engine and the campaigns only ask
//! whether a request was served: almost every text is dropped unread. So a
//! [`Text`] keeps the pieces a `format!` would have joined — a fixed head
//! and tail around at most one argument — and joins them only when it is
//! displayed or compared.

use std::borrow::Cow;
use std::fmt;

/// Answer or failure text: a fixed head, at most one argument, and a fixed
/// tail, rendered only when displayed.
///
/// Building one allocates nothing unless the argument is copied out of an
/// owned request field or the text is a computed `String`; literals and
/// slices of a borrowed request body or client stay borrowed. Two texts
/// are equal when they render the same bytes, however they were built.
///
/// # Example
///
/// ```
/// use faultstudy_apps::Text;
///
/// let answer = Text::new("served ", 4, " pipelined requests");
/// assert_eq!(answer.to_string(), "served 4 pipelined requests");
/// assert_eq!(answer, Text::from("served 4 pipelined requests"));
/// assert_eq!(answer, Text::from(format!("served {} pipelined requests", 4)));
/// ```
#[derive(Clone)]
pub struct Text {
    head: &'static str,
    arg: Arg,
    tail: &'static str,
}

/// The one argument of a [`Text`]: a string, a part of a request field, or
/// a count rendered in decimal.
#[derive(Debug, Clone)]
pub struct Arg(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Str(Cow<'static, str>),
    Count(u64),
}

impl Arg {
    /// `part`, a slice of the request field `field` (its body or client):
    /// borrowed when the field is, copied when the field is owned. A `part`
    /// that does not lie within `field` is copied too, so the text always
    /// renders `part`.
    // The field's `Cow` is the point: only a borrowed one can lend `part`.
    #[allow(clippy::ptr_arg)]
    pub fn part_of(field: &Cow<'static, str>, part: &str) -> Arg {
        if let Cow::Borrowed(whole) = field {
            let start = (part.as_ptr() as usize).wrapping_sub(whole.as_ptr() as usize);
            if let Some(borrowed) =
                start.checked_add(part.len()).and_then(|end| whole.get(start..end))
            {
                return Arg(Repr::Str(Cow::Borrowed(borrowed)));
            }
        }
        Arg(Repr::Str(Cow::Owned(part.to_owned())))
    }
}

impl From<&'static str> for Arg {
    fn from(s: &'static str) -> Arg {
        Arg(Repr::Str(Cow::Borrowed(s)))
    }
}

/// The whole request field: borrowed when the field is, copied when owned.
impl From<&Cow<'static, str>> for Arg {
    fn from(field: &Cow<'static, str>) -> Arg {
        Arg(Repr::Str(field.clone()))
    }
}

impl From<u64> for Arg {
    fn from(n: u64) -> Arg {
        Arg(Repr::Count(n))
    }
}

impl Text {
    /// `head`, then `arg`, then `tail`.
    pub fn new(head: &'static str, arg: impl Into<Arg>, tail: &'static str) -> Text {
        Text { head, arg: arg.into(), tail }
    }

    /// Calls `f` with the three rendered pieces, the count's digits written
    /// to a buffer on the stack.
    fn pieces<R>(&self, f: impl FnOnce([&str; 3]) -> R) -> R {
        let mut digits = [0u8; 20];
        let arg = match &self.arg.0 {
            Repr::Str(s) => s,
            Repr::Count(n) => decimal(*n, &mut digits),
        };
        f([self.head, arg, self.tail])
    }
}

/// `n` in decimal, written to the end of `buf` (a `u64` has at most 20
/// digits).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII")
}

impl From<&'static str> for Text {
    fn from(s: &'static str) -> Text {
        Text::new(s, "", "")
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text { head: "", arg: Arg(Repr::Str(Cow::Owned(s))), tail: "" }
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.pieces(|pieces| pieces.iter().try_for_each(|piece| f.write_str(piece)))
    }
}

/// Formats like the rendered string's `Debug`: quoted and escaped.
impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.to_string().as_str(), f)
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.pieces(|a| {
            other.pieces(|b| a.iter().flat_map(|s| s.bytes()).eq(b.iter().flat_map(|s| s.bytes())))
        })
    }
}

impl Eq for Text {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_render_every_digit() {
        for n in [0, 7, 10, 4_000, u64::MAX] {
            assert_eq!(Text::new("", n, "").to_string(), n.to_string());
        }
    }

    #[test]
    fn texts_equal_by_rendered_bytes() {
        let built = Text::new("200 OK ", "/index.html", "");
        assert_eq!(built, Text::from("200 OK /index.html"));
        assert_eq!(built, Text::from("200 OK /index.html".to_owned()));
        assert_eq!(Text::new("a", "b", "c"), Text::new("", "ab", "c"));
        assert_ne!(built, Text::from("200 OK /index.htm"));
        assert_ne!(Text::from("ab"), Text::from("abc"));
        assert_eq!(format!("{built:?}"), "\"200 OK /index.html\"");
    }

    #[test]
    fn a_part_of_a_borrowed_field_stays_borrowed() {
        let field: Cow<'static, str> = Cow::Borrowed("GET /index.html");
        let Arg(Repr::Str(part)) = Arg::part_of(&field, &field[4..]) else {
            panic!("a part is a string argument");
        };
        assert!(matches!(part, Cow::Borrowed("/index.html")));
    }

    #[test]
    fn a_part_of_an_owned_or_other_field_is_copied() {
        let owned: Cow<'static, str> = Cow::Owned("PROBE apache-ei-17".to_owned());
        let elsewhere: Cow<'static, str> = Cow::Borrowed("PROBE apache-ei-17");
        for (field, part) in [(&owned, &owned[6..]), (&elsewhere, &owned[6..])] {
            let Arg(Repr::Str(copy)) = Arg::part_of(field, part) else {
                panic!("a part is a string argument");
            };
            assert!(matches!(copy, Cow::Owned(ref s) if s == "apache-ei-17"));
        }
    }
}
